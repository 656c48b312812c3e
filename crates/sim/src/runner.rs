//! The experiment runner: scenario × policy × horizon → report.

use std::path::PathBuf;

use agile_core::{ManagerConfig, PlanMode, PowerPolicy, RoundStats};
use obs::MetricsSnapshot;
use simcore::{SimDuration, SimTime};

use crate::demand::DemandWindow;
use crate::metrics::MetricsCollector;
use crate::{FailureModel, Scenario, SimReport};

/// A configured simulation run: scenario × policy × horizon.
///
/// `Experiment` describes *what* to simulate; hand it to
/// [`crate::SimulationBuilder`] to choose *how* to run it (profiling,
/// cluster capture) and to execute. The builder is the only
/// entry point.
///
/// The [`PowerPolicy::Oracle`] policy is evaluated analytically — ideal
/// consolidation with free transitions on the same hardware curves — and
/// produces a report with the same shape as the simulated policies.
///
/// # Example
///
/// ```
/// use agile_core::PowerPolicy;
/// use dcsim::{Experiment, Scenario, SimulationBuilder};
/// use simcore::SimDuration;
///
/// let scenario = Scenario::small_test(7);
/// let base = SimulationBuilder::new(
///     Experiment::new(scenario.clone())
///         .policy(PowerPolicy::always_on())
///         .horizon(SimDuration::from_hours(2)),
/// )
/// .build()?
/// .run()?;
/// let oracle = SimulationBuilder::new(
///     Experiment::new(scenario)
///         .policy(PowerPolicy::oracle())
///         .horizon(SimDuration::from_hours(2)),
/// )
/// .build()?
/// .run()?;
/// assert!(oracle.report.energy_j < base.report.energy_j);
/// # Ok::<(), dcsim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    scenario: Scenario,
    config: ConfigSource,
    pub(crate) horizon: SimDuration,
    control_interval: Option<SimDuration>,
    pub(crate) failures: FailureModel,
    pub(crate) record_events: bool,
    pub(crate) trace_path: Option<PathBuf>,
    schedulers: usize,
    view_staleness: usize,
    control_latency: usize,
}

/// Where the manager configuration comes from: a bare policy gets
/// fleet-scaled defaults; an explicit config is used verbatim.
#[derive(Debug, Clone)]
enum ConfigSource {
    Policy(PowerPolicy),
    Explicit(ManagerConfig),
}

impl Experiment {
    /// Creates an experiment with the `AlwaysOn` policy and a 24 h
    /// horizon.
    pub fn new(scenario: Scenario) -> Self {
        Experiment {
            scenario,
            config: ConfigSource::Policy(PowerPolicy::always_on()),
            horizon: SimDuration::from_hours(24),
            control_interval: None,
            failures: FailureModel::none(),
            record_events: false,
            trace_path: None,
            schedulers: 1,
            view_staleness: 0,
            control_latency: 0,
        }
    }

    /// Sets the policy; the manager configuration is derived with
    /// [`ManagerConfig::for_fleet`] so action caps scale with the
    /// scenario. Overrides any earlier
    /// [`manager_config`](Self::manager_config).
    pub fn policy(mut self, policy: PowerPolicy) -> Self {
        self.config = ConfigSource::Policy(policy);
        self
    }

    /// Sets the full manager configuration verbatim (for sensitivity
    /// sweeps). Overrides any earlier [`policy`](Self::policy).
    pub fn manager_config(mut self, config: ManagerConfig) -> Self {
        self.config = ConfigSource::Explicit(config);
        self
    }

    /// The manager configuration this experiment will run.
    pub(crate) fn resolve_config(&self) -> ManagerConfig {
        match &self.config {
            ConfigSource::Policy(p) => ManagerConfig::for_fleet(
                *p,
                self.scenario.host_specs().len(),
                self.scenario.fleet().len(),
            ),
            ConfigSource::Explicit(c) => c.clone(),
        }
    }

    /// Enables power-transition fault injection (default: none). The
    /// analytic (`Oracle`/DVFS) paths take no transitions to fail, so
    /// [`crate::SimulationBuilder::build`] rejects a non-default model
    /// there.
    pub fn failure_model(mut self, failures: FailureModel) -> Self {
        self.failures = failures;
        self
    }

    /// Enables the audit log (entries land in [`SimReport::events`]).
    /// The analytic (`Oracle`/DVFS) paths take no management actions to
    /// log, so [`crate::SimulationBuilder::build`] rejects it there.
    pub fn record_events(mut self) -> Self {
        self.record_events = true;
        self
    }

    /// Streams trace records (JSON Lines, constant memory) to `path`.
    /// The analytic (`Oracle`/DVFS) paths have no event loop to trace,
    /// so [`crate::SimulationBuilder::build`] rejects it there. The path
    /// is stored, not opened — the sink is created when the run is
    /// built, so `Experiment` stays `Clone`.
    pub fn trace_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_path = Some(path.into());
        self
    }

    /// Has no effect: the utilization-bucket index is the only planner,
    /// and debug builds check each of its picks against a full-fleet
    /// scan. Kept only because the frozen `perfbench` benchmark still
    /// calls it; ROADMAP item 2's benchmark change removes that call and
    /// then this setter.
    pub fn plan_mode(self, _mode: PlanMode) -> Self {
        self
    }

    /// Sets the simulated horizon (default 24 h).
    pub fn horizon(mut self, horizon: SimDuration) -> Self {
        self.horizon = horizon;
        self
    }

    /// Sets the management/demand tick (default: the scenario's demand
    /// step).
    pub fn control_interval(mut self, interval: SimDuration) -> Self {
        self.control_interval = Some(interval);
        self
    }

    /// Runs `count` concurrent scheduler replicas (default 1) over fixed
    /// contiguous host partitions, every commit arbitrated by the shared
    /// conflict-checked placement store. Ignored by the analytic
    /// (`Oracle`/DVFS) paths — the builder rejects any non-default
    /// control-plane knob there.
    pub fn schedulers(mut self, count: usize) -> Self {
        self.schedulers = count;
        self
    }

    /// Each scheduler observes remote partitions through a snapshot this
    /// many control rounds old (default 0 = fully fresh). Only visible
    /// with more than one scheduler.
    pub fn view_staleness(mut self, rounds: usize) -> Self {
        self.view_staleness = rounds;
        self
    }

    /// Plans computed at tick `t` commit at tick `t + rounds` (default 0
    /// = same tick).
    pub fn control_latency(mut self, rounds: usize) -> Self {
        self.control_latency = rounds;
        self
    }

    /// The control-plane knobs: `(schedulers, view staleness, control
    /// latency)`.
    pub(crate) fn control_plane_knobs(&self) -> (usize, usize, usize) {
        (self.schedulers, self.view_staleness, self.control_latency)
    }

    /// The scenario under test.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Whether this experiment resolves to the analytic `Oracle` policy
    /// (no event loop, no cluster).
    pub(crate) fn is_oracle(&self) -> bool {
        matches!(self.resolve_config().policy(), PowerPolicy::Oracle)
    }

    /// The effective management tick (explicit override or the scenario's
    /// demand step).
    pub(crate) fn resolved_interval(&self) -> SimDuration {
        self.control_interval
            .unwrap_or_else(|| self.scenario.demand_step())
    }

    /// The analytic DVFS-only evaluation behind the builder's DVFS mode
    /// ([`crate::SimulationBuilder::dvfs_baseline`]): every host stays on
    /// and independently clocks down to the lowest sufficient frequency
    /// for its share of demand (perfectly balanced across the fleet). No
    /// consolidation, no power states — the classic alternative the
    /// paper's platform low-power states are contrasted against.
    /// Serves everything (violations zero) since capacity never leaves.
    pub(crate) fn dvfs_report(&self, dvfs: &power::DvfsModel) -> SimReport {
        let hosts = self.scenario.host_specs();
        let total_cap: f64 = hosts.iter().map(|h| h.capacity().cpu_cores).sum();
        self.analytic_report("DVFS-only", |demand| {
            let util = (demand / total_cap).clamp(0.0, 1.0);
            let power = hosts
                .iter()
                .map(|h| dvfs.best_power_w(h.profile().curve(), util))
                .sum();
            (power, hosts.len(), util)
        })
    }

    /// The analytic proportionality bound: at every tick, the smallest
    /// prefix of hosts (most CPU-per-peak-watt efficient first) that can
    /// carry the offered demand runs at equal utilization on its real
    /// power curves; everything else draws zero; transitions are free and
    /// instant. Works for heterogeneous fleets; for a uniform fleet it
    /// reduces to the classic ceil(demand/capacity) bound. Serves
    /// everything by construction.
    pub(crate) fn run_oracle(&self) -> SimReport {
        let hosts = self.scenario.host_specs();
        // Most efficient hosts first (capacity per peak watt).
        let mut order: Vec<usize> = (0..hosts.len()).collect();
        let efficiency = |i: usize| {
            let h = &hosts[i];
            h.capacity().cpu_cores / h.profile().curve().peak_w().max(1e-9)
        };
        order.sort_by(|&a, &b| {
            efficiency(b)
                .partial_cmp(&efficiency(a))
                .expect("efficiency is finite")
        });
        self.analytic_report(PowerPolicy::oracle().label(), |demand| {
            // Take the shortest efficient prefix that fits the demand.
            let mut n = 0usize;
            let mut cap_sum = 0.0;
            if demand > 0.0 {
                for &i in &order {
                    n += 1;
                    cap_sum += hosts[i].capacity().cpu_cores;
                    if cap_sum >= demand {
                        break;
                    }
                }
            }
            let util = if n > 0 {
                (demand / cap_sum).min(1.0)
            } else {
                0.0
            };
            let power = order[..n]
                .iter()
                .map(|&i| hosts[i].profile().curve().power_at(util))
                .sum();
            (power, n, util)
        })
    }

    /// The tick loop both analytic baselines share: each control tick,
    /// `tick` maps the fleet's offered demand (read through the engine's
    /// demand window, so only VMs inside their lifetimes count) to the
    /// fleet's draw in watts, the hosts on, and their utilization. Energy
    /// integrates the draw with the last partial interval clipped to the
    /// horizon; the report carries no actions, faults or violations.
    fn analytic_report(
        &self,
        policy: &str,
        mut tick: impl FnMut(f64) -> (f64, usize, f64),
    ) -> SimReport {
        let interval = self.resolved_interval();
        let fleet = self.scenario.fleet();
        let mut window = DemandWindow::new(fleet, interval, self.horizon);
        let mut collector = MetricsCollector::new(interval);
        let mut energy_j = 0.0;
        let end = SimTime::ZERO + self.horizon;
        let mut t = SimTime::ZERO;
        let mut hosts_on = simcore::TimeSeries::new();
        let mut util_acc = simcore::Welford::new();
        while t <= end {
            let demand: f64 = window.row(t).iter().sum();
            let (power, on, util) = tick(demand);
            util_acc.push(util);
            collector.record_latency_sample(util, demand);
            hosts_on.record(t, on as f64);
            collector.record_power(t, power);
            let dt = interval
                .as_secs_f64()
                .min(end.since(t).as_secs_f64().max(0.0));
            if t < end {
                energy_j += power * dt;
            }
            t += interval;
        }

        let mut report = collector.finalize(
            self.scenario.name().to_string(),
            policy.to_string(),
            self.scenario.seed(),
            self.horizon,
            self.scenario.host_specs().len(),
            fleet.len(),
            energy_j,
            0,
            RoundStats::default(),
            0.0,
            0.0,
            crate::metrics::FaultCounters::default(),
            Vec::new(),
            MetricsSnapshot::new(),
        );
        report.avg_hosts_on = hosts_on.time_weighted_mean(end).unwrap_or(0.0);
        report.avg_util_on = util_acc.mean();
        report.hosts_on_series = hosts_on;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimulationBuilder;
    use workload::{Fleet, Lifetime, LifetimePlan};

    #[test]
    fn managed_runs_plan_indexed_by_default() {
        let experiment = Experiment::new(Scenario::datacenter(8, 32, 11))
            .policy(PowerPolicy::reactive_suspend())
            .horizon(SimDuration::from_hours(6));
        let refreshes = SimulationBuilder::new(experiment)
            .run_report()
            .unwrap()
            .metrics
            .counter("work.index.refreshes");
        assert!(refreshes > 0, "default must plan indexed");
    }

    #[test]
    fn policy_ladder_orders_energy() {
        // Oracle <= PM-Suspend < AlwaysOn on a diurnal day.
        let scenario = Scenario::datacenter(8, 32, 11);
        let horizon = SimDuration::from_hours(24);
        let run = |p: PowerPolicy| {
            SimulationBuilder::new(Experiment::new(scenario.clone()).policy(p).horizon(horizon))
                .run_report()
                .unwrap()
        };
        let base = run(PowerPolicy::always_on());
        let suspend = run(PowerPolicy::reactive_suspend());
        let oracle = run(PowerPolicy::oracle());
        assert!(
            oracle.energy_j < suspend.energy_j,
            "oracle {} >= suspend {}",
            oracle.energy_kwh(),
            suspend.energy_kwh()
        );
        assert!(
            suspend.energy_j < base.energy_j,
            "suspend {} >= base {}",
            suspend.energy_kwh(),
            base.energy_kwh()
        );
    }

    #[test]
    fn oracle_has_no_violations_or_actions() {
        let r = SimulationBuilder::new(
            Experiment::new(Scenario::small_test(3))
                .policy(PowerPolicy::oracle())
                .horizon(SimDuration::from_hours(4)),
        )
        .run_report()
        .unwrap();
        assert_eq!(r.violation_fraction, 0.0);
        assert_eq!(r.migrations, 0);
        assert_eq!(r.power_ups + r.power_downs, 0);
        assert!(r.energy_j > 0.0);
        assert_eq!(r.policy, "Oracle");
    }

    #[test]
    fn baselines_count_only_vms_inside_their_lifetimes() {
        // One world twice: as generated, and with extra transient VMs
        // that all arrive after the horizon. Those VMs never exist during
        // the run, so the Oracle and DVFS reports must not see them.
        let world = Scenario::datacenter(8, 32, 11);
        let horizon = SimDuration::from_hours(6);
        let with_late_vms = |extra: usize| {
            let fleet = world.fleet();
            let late = Lifetime {
                arrival: SimTime::ZERO + horizon + SimDuration::from_mins(5),
                departure: None,
            };
            let specs = fleet.vm_specs().iter().chain(&fleet.vm_specs()[..extra]);
            let traces = fleet.traces().iter().chain(&fleet.traces()[..extra]);
            let lives = fleet.lifetimes().lifetimes().iter().copied();
            let fleet = Fleet::from_parts(specs.copied().collect(), traces.cloned().collect())
                .with_lifetime_plan(LifetimePlan::from_lifetimes(
                    lives.chain(std::iter::repeat_n(late, extra)).collect(),
                ));
            let (hosts, step) = (world.host_specs().to_vec(), world.demand_step());
            Scenario::new(world.name(), hosts, fleet, step, world.seed())
        };
        let (plain, padded) = (with_late_vms(0), with_late_vms(8));
        let run = |scenario: &Scenario, dvfs: bool| {
            let experiment = Experiment::new(scenario.clone())
                .policy(PowerPolicy::oracle())
                .horizon(horizon);
            let mut builder = SimulationBuilder::new(experiment);
            if dvfs {
                builder = builder.dvfs_baseline(power::DvfsModel::typical_2013());
            }
            builder.run_report().unwrap()
        };
        for dvfs in [false, true] {
            let want = run(&plain, dvfs);
            let mut got = run(&padded, dvfs);
            assert_eq!(got.num_vms, want.num_vms + 8);
            got.num_vms = want.num_vms;
            assert_eq!(got, want, "dvfs = {dvfs}");
        }
    }

    #[test]
    fn manager_config_override_applies() {
        let cfg = ManagerConfig::new(PowerPolicy::reactive_suspend()).with_spare_hosts(3);
        let e = Experiment::new(Scenario::small_test(4)).manager_config(cfg);
        // With 3 spares demanded on a 4-host cluster, consolidation can
        // barely act; the run must still complete.
        let r = SimulationBuilder::new(e.horizon(SimDuration::from_hours(2)))
            .run_report()
            .unwrap();
        assert_eq!(r.policy, "PM-Suspend(S3)");
    }

    #[test]
    fn control_plane_knobs_default_to_one_fresh_scheduler() {
        let e = Experiment::new(Scenario::small_test(5));
        assert_eq!(e.control_plane_knobs(), (1, 0, 0));
        let e = e.view_staleness(2);
        assert_eq!(e.control_plane_knobs(), (1, 2, 0));
        let e = e.schedulers(4).control_latency(1);
        assert_eq!(e.control_plane_knobs(), (4, 2, 1));
    }
}

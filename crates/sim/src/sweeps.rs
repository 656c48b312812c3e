//! Drivers for the sweep-style experiments.
//!
//! [`SweepBuilder`] is the one sweep engine behind every figure-style
//! series: pick an axis (the values a figure plots), describe how one
//! axis value becomes one or more simulation *legs* (comparison columns
//! — e.g. always-on vs. managed), and [`SweepBuilder::run`] executes the
//! whole grid through the bounded worker pool, returning one typed
//! [`SweepRow`] per value in axis order. Rows carry the per-leg reports
//! at the base seed plus per-leg [`ReplicationSummary`] statistics; ask
//! for [`replications`](SweepBuilder::replications) to rerun the grid
//! across consecutive seeds and get mean ± deviation instead of a
//! single-draw number.
//!
//! One family constructor exists per classic experiment
//! (`SweepBuilder::wake_latency`, `::scale`, `::slo_frontier`, ...) and
//! [`SweepBuilder::over`] builds custom sweeps.

use agile_core::{ManagerConfig, PowerPolicy, PredictorConfig};
use power::breakeven::LowPowerMode;
use power::HostPowerProfile;
use simcore::SimDuration;
use workload::presets;

use crate::replication::{summarize, ReplicationSummary};
use crate::{Experiment, FailureModel, Scenario, SimError, SimReport, SimulationBuilder};

/// How one axis value becomes the simulation legs of its row, at one
/// seed. Must be a pure function of `(value, seed)` so replication and
/// pooled execution stay bit-reproducible.
type LegsFn<X> = Box<dyn Fn(&X, u64) -> Result<Vec<SimulationBuilder>, SimError> + Send + Sync>;

/// One row of a sweep: the axis value plus its simulation legs.
#[derive(Debug, Clone)]
pub struct SweepRow<X> {
    /// The axis value of this row.
    pub value: X,
    /// One report per leg, in leg order, at the sweep's base seed.
    pub reports: Vec<SimReport>,
    /// Per-leg statistics across the replication seeds (a single-run
    /// summary when no replication was requested).
    pub summaries: Vec<ReplicationSummary>,
}

impl<X> SweepRow<X> {
    /// The first (often only) leg's base-seed report.
    pub fn report(&self) -> &SimReport {
        &self.reports[0]
    }
}

/// A declarative sweep: axis values × legs × replication seeds, executed
/// through the bounded worker pool.
///
/// Results are independent of pool scheduling: every leg is a pure
/// function of `(value, seed)`, and rows come back in axis order — the
/// pooled grid is bit-identical to the sequential loop it replaced.
///
/// # Example
///
/// ```
/// use agile_core::PowerPolicy;
/// use dcsim::sweeps::SweepBuilder;
///
/// let rows = SweepBuilder::scale(
///     &[4, 8],
///     &[PowerPolicy::always_on(), PowerPolicy::reactive_suspend()],
///     13,
/// )
/// .run()?;
/// assert_eq!(rows.len(), 2);
/// // Two legs per row: always-on then managed.
/// assert!(rows[0].reports[1].energy_j < rows[0].reports[0].energy_j);
/// # Ok::<(), dcsim::SimError>(())
/// ```
pub struct SweepBuilder<X> {
    values: Vec<X>,
    seed: u64,
    replications: usize,
    legs: LegsFn<X>,
}

impl<X: std::fmt::Debug> std::fmt::Debug for SweepBuilder<X> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepBuilder")
            .field("values", &self.values)
            .field("seed", &self.seed)
            .field("replications", &self.replications)
            .finish_non_exhaustive()
    }
}

impl<X: Sync> SweepBuilder<X> {
    /// A custom sweep: `legs` maps each axis value (at a seed) to the
    /// row's simulation legs. Keep it a pure function of its arguments —
    /// that is what makes the pooled grid reproducible.
    pub fn over(
        values: Vec<X>,
        seed: u64,
        legs: impl Fn(&X, u64) -> Result<Vec<SimulationBuilder>, SimError> + Send + Sync + 'static,
    ) -> Self {
        SweepBuilder {
            values,
            seed,
            replications: 1,
            legs: Box::new(legs),
        }
    }

    /// Reruns the whole grid at `count` consecutive seeds (`seed`,
    /// `seed + 1`, ...) and summarizes each leg across them. The row
    /// reports stay those of the base seed.
    ///
    /// # Panics
    ///
    /// Panics on `count == 0`.
    pub fn replications(mut self, count: usize) -> Self {
        assert!(count >= 1, "need at least one replication");
        self.replications = count;
        self
    }

    /// Executes the grid through the bounded worker pool and returns one
    /// row per axis value, in axis order.
    ///
    /// # Errors
    ///
    /// Propagates the first failing run in output order (axis order,
    /// then seed order, then leg order).
    ///
    /// # Panics
    ///
    /// Panics if the legs closure returns a different number of legs for
    /// different seeds of the same value (it must be a pure function of
    /// the axis value's shape).
    pub fn run(self) -> Result<Vec<SweepRow<X>>, SimError> {
        let SweepBuilder {
            values,
            seed,
            replications: k,
            legs,
        } = self;
        let results: Vec<Result<Vec<SimReport>, SimError>> =
            simcore::pool::run_indexed(values.len() * k, |i| {
                let value = &values[i / k];
                let rep = (i % k) as u64;
                legs(value, seed.wrapping_add(rep))?
                    .into_iter()
                    .map(SimulationBuilder::run_report)
                    .collect()
            });
        let mut results = results.into_iter();
        values
            .into_iter()
            .map(|value| {
                // [replication][leg], in seed order.
                let reps: Vec<Vec<SimReport>> = (0..k)
                    .map(|_| results.next().expect("one result per job"))
                    .collect::<Result<_, _>>()?;
                let legs_n = reps[0].len();
                assert!(
                    reps.iter().all(|r| r.len() == legs_n),
                    "legs must not depend on the seed"
                );
                let summaries = (0..legs_n)
                    .map(|j| {
                        if k == 1 {
                            summarize(std::slice::from_ref(&reps[0][j]))
                        } else {
                            let leg: Vec<SimReport> =
                                reps.iter().map(|rep| rep[j].clone()).collect();
                            summarize(&leg)
                        }
                    })
                    .collect();
                let reports = reps.into_iter().next().expect("at least one replication");
                Ok(SweepRow {
                    value,
                    reports,
                    summaries,
                })
            })
            .collect()
    }
}

impl SweepBuilder<SimDuration> {
    /// Experiment F7: flash-crowd responsiveness vs. host wake-up
    /// latency. One leg per row.
    ///
    /// The fleet idles at 12 % of cap for 90 minutes (long enough for
    /// the manager to consolidate and park hosts), then every VM steps
    /// to 85 % simultaneously. The sweep replaces the prototype's resume
    /// latency, covering the S3-class regime (~10 s) through S5-class
    /// boot times (minutes). The interesting outputs are
    /// `unserved_ratio` and the violation window length.
    pub fn wake_latency(hosts: usize, vms: usize, latencies: &[SimDuration], seed: u64) -> Self {
        let horizon = SimDuration::from_hours(3);
        let step = SimDuration::from_mins(1);
        Self::over(latencies.to_vec(), seed, move |&latency, seed| {
            let fleet = presets::flash_crowd(0.12, 0.85, SimDuration::from_mins(90))
                .generate(vms, horizon, step, seed);
            let profile = HostPowerProfile::prototype_rack().with_resume_latency(latency);
            let scenario = Scenario::new(
                format!("flash-crowd-{hosts}x{vms}"),
                Scenario::uniform_hosts(hosts, profile),
                fleet,
                step,
                seed,
            );
            let config = ManagerConfig::for_fleet(PowerPolicy::reactive_suspend(), hosts, vms)
                .with_min_on_time(SimDuration::from_mins(5))
                .with_max_migrations_per_round(vms.max(8));
            Ok(vec![SimulationBuilder::new(
                Experiment::new(scenario)
                    .manager_config(config)
                    .horizon(horizon),
            )])
        })
    }

    /// Experiment F11: hysteresis window sweep — power-action rate and
    /// energy vs. the minimum in-service residency. One leg per row.
    pub fn hysteresis(
        hosts: usize,
        vms: usize,
        min_on_times: &[SimDuration],
        mode: LowPowerMode,
        seed: u64,
    ) -> Self {
        Self::over(min_on_times.to_vec(), seed, move |&min_on, seed| {
            // Disable the dead-band so the hysteresis window is the only
            // flap damper — the isolation this ablation needs.
            let config = ManagerConfig::for_fleet(PowerPolicy::Reactive { mode }, hosts, vms)
                .with_min_on_time(min_on)
                .with_drain_deadband(0.0)
                .with_predictor(PredictorConfig::LastValue);
            Ok(vec![SimulationBuilder::new(
                Experiment::new(Scenario::datacenter_spiky(hosts, vms, seed))
                    .manager_config(config)
                    .control_interval(SimDuration::from_mins(1)),
            )])
        })
    }

    /// Experiment F17: management-interval sweep — the agility axis. As
    /// the control loop tightens from 15 min toward 30 s, reaction
    /// sharpens but every wake mistake costs a full transition; the S5
    /// regime pays its latency on each one while S3 does not. Two legs
    /// per row: S3, then S5.
    pub fn interval(hosts: usize, vms: usize, intervals: &[SimDuration], seed: u64) -> Self {
        Self::over(intervals.to_vec(), seed, move |&interval, seed| {
            let scenario = Scenario::datacenter_spiky(hosts, vms, seed);
            Ok(vec![
                SimulationBuilder::new(
                    Experiment::new(scenario.clone())
                        .policy(PowerPolicy::reactive_suspend())
                        .control_interval(interval),
                ),
                SimulationBuilder::new(
                    Experiment::new(scenario)
                        .policy(PowerPolicy::reactive_off())
                        .control_interval(interval),
                ),
            ])
        })
    }

    /// Experiment T26: the savings-vs-SLO frontier of joint sleep +
    /// speed scaling over the power-state ladder. Four legs per row:
    /// always-on baseline, analytic DVFS-only, reactive suspend-only,
    /// and the joint ladder policy at the row's wake-latency SLO (the
    /// first three do not read the SLO, so they repeat identically
    /// across rows).
    pub fn slo_frontier(hosts: usize, vms: usize, slos: &[SimDuration], seed: u64) -> Self {
        Self::over(slos.to_vec(), seed, move |&slo, seed| {
            let plain = Scenario::datacenter(hosts, vms, seed);
            let ladder = Scenario::datacenter_ladder(hosts, vms, seed);
            let config = ManagerConfig::for_fleet(PowerPolicy::joint_ladder(slo), hosts, vms)
                .with_prewake(SimDuration::from_mins(15));
            Ok(vec![
                SimulationBuilder::new(
                    Experiment::new(plain.clone()).policy(PowerPolicy::always_on()),
                ),
                SimulationBuilder::new(Experiment::new(plain.clone()))
                    .dvfs_baseline(power::DvfsModel::typical_2013()),
                SimulationBuilder::new(
                    Experiment::new(plain).policy(PowerPolicy::reactive_suspend()),
                ),
                SimulationBuilder::new(Experiment::new(ladder).manager_config(config)),
            ])
        })
    }
}

impl SweepBuilder<f64> {
    /// Experiment F6: energy proportionality — average cluster power vs.
    /// offered load level, for one policy. One leg per row.
    ///
    /// Steady fleets at each load level run for 12 h so the consolidated
    /// steady state dominates the startup transient.
    pub fn proportionality(
        hosts: usize,
        vms: usize,
        levels: &[f64],
        policy: PowerPolicy,
        seed: u64,
    ) -> Self {
        let horizon = SimDuration::from_hours(12);
        Self::over(levels.to_vec(), seed, move |&level, seed| {
            let scenario = Scenario::with_workload(
                format!("steady-{level:.2}-{hosts}x{vms}"),
                hosts,
                vms,
                presets::steady(level),
                horizon,
                seed,
            );
            Ok(vec![SimulationBuilder::new(
                Experiment::new(scenario).policy(policy).horizon(horizon),
            )])
        })
    }

    /// Experiment F10: consolidation headroom (target utilization)
    /// sweep — the energy/violation trade-off knob. One leg per row.
    pub fn headroom(
        hosts: usize,
        vms: usize,
        targets: &[f64],
        mode: LowPowerMode,
        seed: u64,
    ) -> Self {
        Self::over(targets.to_vec(), seed, move |&target, seed| {
            let config = ManagerConfig::for_fleet(PowerPolicy::Reactive { mode }, hosts, vms)
                .with_overload_threshold((target + 0.05).max(0.90))
                .with_underload_threshold((target - 0.15).max(0.05))
                .with_target_utilization(target);
            Ok(vec![SimulationBuilder::new(
                Experiment::new(Scenario::datacenter_spiky(hosts, vms, seed))
                    .manager_config(config),
            )])
        })
    }

    /// Experiment T13: reliability sensitivity — the cost of resume
    /// failures. One leg per row.
    ///
    /// Sweeps the per-attempt resume failure probability on the spiky
    /// diurnal day. A failed resume strands the host `Off`; the manager
    /// recovers with a cold boot.
    pub fn reliability(hosts: usize, vms: usize, failure_probs: &[f64], seed: u64) -> Self {
        Self::over(failure_probs.to_vec(), seed, move |&p, seed| {
            Ok(vec![SimulationBuilder::new(
                Experiment::new(Scenario::datacenter_spiky(hosts, vms, seed))
                    .policy(PowerPolicy::reactive_suspend())
                    .failure_model(FailureModel::new(p, 0.0))
                    .control_interval(SimDuration::from_mins(1)),
            )])
        })
    }

    /// Experiment T13b: failure-rate overhead — managed vs. always-on as
    /// the whole fault surface (resume/boot failures, migration aborts,
    /// hangs, rack bursts) scales up together. Two legs per row:
    /// always-on, then managed.
    pub fn failure_overhead(hosts: usize, vms: usize, intensities: &[f64], seed: u64) -> Self {
        Self::over(intensities.to_vec(), seed, move |&p, seed| {
            let scenario = Scenario::datacenter_spiky(hosts, vms, seed);
            let leg = |policy| {
                SimulationBuilder::new(
                    Experiment::new(scenario.clone())
                        .policy(policy)
                        .failure_model(full_fault_surface(p))
                        .control_interval(SimDuration::from_mins(1)),
                )
            };
            Ok(vec![
                leg(PowerPolicy::always_on()),
                leg(PowerPolicy::reactive_suspend()),
            ])
        })
    }
}

impl SweepBuilder<usize> {
    /// Experiment F8: scale-out — the same diurnal day at increasing
    /// cluster sizes (VMs scale at 6 per host, the headline density).
    /// One leg per policy, in `policies` order.
    pub fn scale(host_counts: &[usize], policies: &[PowerPolicy], seed: u64) -> Self {
        let policies = policies.to_vec();
        Self::over(host_counts.to_vec(), seed, move |&hosts, seed| {
            Ok(policies
                .iter()
                .map(|&policy| {
                    SimulationBuilder::new(
                        Experiment::new(Scenario::datacenter(hosts, hosts * 6, seed))
                            .policy(policy),
                    )
                })
                .collect())
        })
    }
}

impl SweepBuilder<(String, PredictorConfig)> {
    /// Experiment T12: predictor ablation under one power mode. One leg
    /// per row.
    pub fn predictors(
        hosts: usize,
        vms: usize,
        predictors: &[(&str, PredictorConfig)],
        mode: LowPowerMode,
        seed: u64,
    ) -> Self {
        let values = predictors
            .iter()
            .map(|(name, p)| (name.to_string(), *p))
            .collect();
        Self::over(values, seed, move |(_, predictor), seed| {
            let config = ManagerConfig::for_fleet(PowerPolicy::Reactive { mode }, hosts, vms)
                .with_predictor(*predictor);
            Ok(vec![SimulationBuilder::new(
                Experiment::new(Scenario::datacenter_spiky(hosts, vms, seed))
                    .manager_config(config)
                    .control_interval(SimDuration::from_mins(1)),
            )])
        })
    }
}

impl SweepBuilder<&'static str> {
    /// Experiment F16: power-curve shape ablation — the same fleet and
    /// manager on hosts whose utilization→power curve is sub-linear,
    /// linear, or super-linear (identical idle/peak endpoints and
    /// transitions). Two legs per row: always-on, then managed.
    pub fn curve_shapes(hosts: usize, vms: usize, seed: u64) -> Self {
        let values = vec!["sub-linear", "linear", "super-linear"];
        Self::over(values, seed, move |&shape, seed| {
            let profile = match shape {
                "sub-linear" => HostPowerProfile::prototype_rack_sublinear(),
                "super-linear" => HostPowerProfile::prototype_rack_superlinear(),
                _ => HostPowerProfile::prototype_rack(),
            };
            let scenario = Scenario::datacenter(hosts, vms, seed).with_host_profile(profile);
            Ok(vec![
                SimulationBuilder::new(
                    Experiment::new(scenario.clone()).policy(PowerPolicy::always_on()),
                ),
                SimulationBuilder::new(
                    Experiment::new(scenario).policy(PowerPolicy::reactive_suspend()),
                ),
            ])
        })
    }

    /// Experiment T21: PSU conversion-loss sensitivity — wall-power
    /// savings when the same DC-side hardware sits behind a good vs.
    /// poor supply. Two legs per row: always-on, then managed.
    ///
    /// Uses a DC-calibrated rack profile (prototype transitions,
    /// 140–290 W DC curve) behind no PSU / 80-PLUS-Gold / legacy
    /// supplies. Two effects compete at the wall: poor supplies penalize
    /// the always-on fleet's light-load operating points, but they also
    /// penalize the *parked* state, which draws its few watts at the
    /// PSU's worst efficiency. The sweep quantifies the net.
    pub fn psu(hosts: usize, vms: usize, seed: u64) -> Self {
        use power::{PowerCurve, PsuModel, TransitionSpec, TransitionTable};

        let values = vec!["dc (no psu)", "80+ gold", "legacy psu"];
        Self::over(values, seed, move |&supply, seed| {
            let dc_profile = power::HostPowerProfile::new(
                "rack-dc",
                PowerCurve::linear(140.0, 290.0),
                7.5,
                4.0,
                TransitionTable::with_suspend(
                    TransitionSpec::new(SimDuration::from_secs(7), 110.0),
                    TransitionSpec::new(SimDuration::from_secs(12), 165.0),
                    TransitionSpec::new(SimDuration::from_secs(80), 130.0),
                    TransitionSpec::new(SimDuration::from_secs(180), 220.0),
                ),
            );
            let profile = match supply {
                "80+ gold" => dc_profile.with_psu(PsuModel::eighty_plus_gold(400.0)),
                "legacy psu" => dc_profile.with_psu(PsuModel::legacy(400.0)),
                _ => dc_profile,
            };
            let scenario = Scenario::datacenter(hosts, vms, seed).with_host_profile(profile);
            Ok(vec![
                SimulationBuilder::new(
                    Experiment::new(scenario.clone()).policy(PowerPolicy::always_on()),
                ),
                SimulationBuilder::new(
                    Experiment::new(scenario).policy(PowerPolicy::reactive_suspend()),
                ),
            ])
        })
    }
}

impl SweepBuilder<(LowPowerMode, Option<SimDuration>)> {
    /// Experiment T18: proactive pre-waking vs reactive-only, under both
    /// power-state regimes. Axis values are `(mode, prewake lookahead)`
    /// in the order S3, S3+prewake, S5, S5+prewake; one leg per row.
    ///
    /// Runs 48 h (the profile learns day 1, pays off day 2) on the spiky
    /// diurnal mix at a 1-minute loop. Pre-waking hides *recurring*
    /// ramps — the question is whether it rescues the slow S5 regime,
    /// and whether it covers flash crowds (it cannot; they are
    /// unpredictable).
    pub fn prewake(hosts: usize, vms: usize, seed: u64) -> Self {
        let lookahead = SimDuration::from_mins(15);
        let values = vec![
            (LowPowerMode::Suspend, None),
            (LowPowerMode::Suspend, Some(lookahead)),
            (LowPowerMode::Off, None),
            (LowPowerMode::Off, Some(lookahead)),
        ];
        let horizon = SimDuration::from_hours(48);
        Self::over(values, seed, move |&(mode, prewake), seed| {
            let scenario = Scenario::with_workload(
                format!("prewake-{hosts}x{vms}"),
                hosts,
                vms,
                presets::enterprise_with_spikes(),
                horizon,
                seed,
            );
            let mut config = ManagerConfig::for_fleet(PowerPolicy::Reactive { mode }, hosts, vms);
            if let Some(lookahead) = prewake {
                config = config.with_prewake(lookahead);
            }
            Ok(vec![SimulationBuilder::new(
                Experiment::new(scenario)
                    .manager_config(config)
                    .control_interval(SimDuration::from_mins(1))
                    .horizon(horizon),
            )])
        })
    }
}

/// The display label of a prewake-sweep axis value (`"S3"`,
/// `"S5+prewake"`, ...).
pub fn prewake_label(mode: LowPowerMode, prewake: Option<SimDuration>) -> String {
    format!(
        "{}{}",
        match mode {
            LowPowerMode::PackageIdle => "C6",
            LowPowerMode::Suspend => "S3",
            LowPowerMode::Off => "S5",
        },
        if prewake.is_some() { "+prewake" } else { "" }
    )
}

/// The full fault surface at one intensity `p`: resume failures at `p`,
/// boot failures, migration aborts, and transition hangs at half of it,
/// and correlated rack bursts at a tenth. At `p == 0` the model is
/// inert, so that row reproduces the failure-free run bit-exactly.
fn full_fault_surface(p: f64) -> FailureModel {
    let mut model = FailureModel::new(p, p * 0.5);
    if p > 0.0 {
        model = model
            .with_migration_failures(p * 0.5)
            .with_hangs(p * 0.5, 4.0)
            .with_rack_bursts(4, p * 0.1, SimDuration::from_mins(30));
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_latency_hurts_responsiveness() {
        let latencies = [SimDuration::from_secs(12), SimDuration::from_secs(300)];
        let rows = SweepBuilder::wake_latency(8, 32, &latencies, 21)
            .run()
            .unwrap();
        let fast = rows[0].report();
        let slow = rows[1].report();
        assert!(
            slow.unserved_ratio >= fast.unserved_ratio,
            "slow wake {:.5} should not beat fast wake {:.5}",
            slow.unserved_ratio,
            fast.unserved_ratio
        );
        // The manager actually parked hosts before the spike.
        assert!(fast.power_downs > 0);
    }

    #[test]
    fn proportionality_power_increases_with_load() {
        let rows =
            SweepBuilder::proportionality(4, 16, &[0.2, 0.8], PowerPolicy::reactive_suspend(), 5)
                .run()
                .unwrap();
        assert!(rows[0].report().avg_power_w() < rows[1].report().avg_power_w());
    }

    #[test]
    fn scale_sweep_runs_multiple_sizes() {
        let rows = SweepBuilder::scale(&[4, 8], &[PowerPolicy::reactive_suspend()], 13)
            .run()
            .unwrap();
        assert_eq!(rows.len(), 2);
        // Energy roughly scales with fleet size.
        let ratio = rows[1].report().energy_j / rows[0].report().energy_j;
        assert!((1.2..3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn policy_grid_matches_single_policy_sweep() {
        let sizes = [4, 8];
        let policies = [PowerPolicy::always_on(), PowerPolicy::reactive_suspend()];
        let grid = SweepBuilder::scale(&sizes, &policies, 13).run().unwrap();
        assert_eq!(grid.len(), 2);
        assert_eq!(grid[0].value, 4);
        assert_eq!(grid[1].value, 8);
        assert_eq!(grid[0].reports.len(), 2);
        // Pooled grid execution changes nothing: the PM legs equal a
        // standalone single-policy sweep exactly.
        let pm = SweepBuilder::scale(&sizes, &[PowerPolicy::reactive_suspend()], 13)
            .run()
            .unwrap();
        assert_eq!(grid[0].reports[1], pm[0].reports[0]);
        assert_eq!(grid[1].reports[1], pm[1].reports[0]);
    }

    #[test]
    fn psu_losses_inflate_wall_energy_but_preserve_savings() {
        let rows = SweepBuilder::psu(6, 24, 9).run().unwrap();
        let dc = &rows[0];
        let gold = &rows[1];
        let legacy = &rows[2];
        // Wall energy exceeds DC energy everywhere, ordered by supply
        // quality.
        assert!(gold.reports[0].energy_j > dc.reports[0].energy_j);
        assert!(legacy.reports[0].energy_j > gold.reports[0].energy_j);
        assert!(legacy.reports[1].energy_j > gold.reports[1].energy_j);
        // The savings fraction survives conversion losses to within a few
        // points. (Two effects nearly cancel: poor supplies penalize the
        // always-on fleet's light-load operating points, but they also
        // penalize the *parked* state, which sits at the PSU's worst
        // efficiency — a real cost of measuring at the wall.)
        for row in &rows {
            let savings = row.reports[1].savings_vs(&row.reports[0]);
            assert!(
                (0.2..0.45).contains(&savings),
                "{}: savings {savings:.3} out of band",
                row.value
            );
        }
    }

    #[test]
    fn prewake_sweep_has_four_variants() {
        let rows = SweepBuilder::prewake(6, 24, 5).run().unwrap();
        let labels: Vec<String> = rows
            .iter()
            .map(|row| prewake_label(row.value.0, row.value.1))
            .collect();
        assert_eq!(labels, vec!["S3", "S3+prewake", "S5", "S5+prewake"]);
        // Pre-waking never increases unserved demand for the slow regime.
        let s5 = rows[2].report();
        let s5_prewake = rows[3].report();
        assert!(
            s5_prewake.unserved_ratio <= s5.unserved_ratio * 1.2 + 1e-6,
            "prewake made S5 much worse: {} vs {}",
            s5_prewake.unserved_ratio,
            s5.unserved_ratio
        );
    }

    #[test]
    fn curve_shape_changes_savings() {
        let rows = SweepBuilder::curve_shapes(6, 24, 19).run().unwrap();
        assert_eq!(rows.len(), 3);
        // Identical endpoints: always-on energy ordering follows curve
        // area (sub-linear burns most at mid utilization).
        let sub = &rows[0];
        let sup = &rows[2];
        assert!(
            sub.reports[0].energy_j > sup.reports[0].energy_j,
            "sub-linear base {} should exceed super-linear base {}",
            sub.reports[0].energy_kwh(),
            sup.reports[0].energy_kwh()
        );
        // The managed runs preserve the same ordering (packed hosts sit
        // in the region where sub-linear draws more), and every shape
        // still shows substantial savings — curve shape moves the
        // absolute numbers, not the conclusion.
        assert!(sub.reports[1].energy_j > sup.reports[1].energy_j);
        for row in &rows {
            let savings = row.reports[1].savings_vs(&row.reports[0]);
            assert!(
                savings > 0.15,
                "{}: savings {savings:.3} unexpectedly small",
                row.value
            );
        }
    }

    #[test]
    fn interval_sweep_runs_both_modes() {
        let intervals = [SimDuration::from_mins(1), SimDuration::from_mins(5)];
        let rows = SweepBuilder::interval(6, 24, &intervals, 7).run().unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.reports[0].policy, "PM-Suspend(S3)");
            assert_eq!(row.reports[1].policy, "PM-OffOn(S5)");
        }
    }

    #[test]
    fn headroom_tightens_fleet() {
        let rows = SweepBuilder::headroom(6, 24, &[0.55, 0.85], LowPowerMode::Suspend, 17)
            .run()
            .unwrap();
        let loose = rows[0].report();
        let tight = rows[1].report();
        assert!(
            tight.avg_hosts_on <= loose.avg_hosts_on + 1e-9,
            "tight headroom should keep fewer hosts on ({} vs {})",
            tight.avg_hosts_on,
            loose.avg_hosts_on
        );
    }

    #[test]
    fn headroom_beyond_full_load_is_an_error_not_a_panic() {
        let err = SweepBuilder::headroom(4, 16, &[1.2], LowPowerMode::Suspend, 1)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("target 1.2"), "{err}");
    }

    #[test]
    fn replications_summarize_each_leg_across_seeds() {
        let rows = SweepBuilder::scale(&[4], &[PowerPolicy::reactive_suspend()], 13)
            .replications(3)
            .run()
            .unwrap();
        assert_eq!(rows.len(), 1);
        let summary = &rows[0].summaries[0];
        assert_eq!(summary.runs, 3);
        assert_eq!(summary.policy, "PM-Suspend(S3)");
        assert!(summary.energy_kwh.mean > 0.0);
        assert!(summary.energy_kwh.std_dev > 0.0, "distinct seeds must vary");
        // The row report stays the base seed's run.
        let base = SweepBuilder::scale(&[4], &[PowerPolicy::reactive_suspend()], 13)
            .run()
            .unwrap();
        assert_eq!(rows[0].reports[0], base[0].reports[0]);
        assert_eq!(base[0].summaries[0].runs, 1);
        assert_eq!(base[0].summaries[0].energy_kwh.std_dev, 0.0);
    }

    #[test]
    fn generic_over_builds_custom_sweeps() {
        let rows = SweepBuilder::over(vec![2usize, 4], 3, |&spares, seed| {
            let config = ManagerConfig::for_fleet(PowerPolicy::reactive_suspend(), 6, 24)
                .with_spare_hosts(spares);
            Ok(vec![SimulationBuilder::new(
                Experiment::new(Scenario::datacenter(6, 24, seed))
                    .manager_config(config)
                    .horizon(SimDuration::from_hours(6)),
            )])
        })
        .run()
        .unwrap();
        assert_eq!(rows.len(), 2);
        // More demanded spares keeps more hosts on.
        assert!(rows[1].report().avg_hosts_on >= rows[0].report().avg_hosts_on);
    }
}

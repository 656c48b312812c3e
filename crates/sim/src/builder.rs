//! The unified simulation entry point.
//!
//! [`SimulationBuilder`] is the one front door to every way this crate
//! can evaluate an [`Experiment`]: the discrete-event engine (optionally
//! distributed across concurrent schedulers, optionally profiled,
//! optionally returning the final cluster), the analytic `Oracle` bound,
//! and the analytic DVFS-only baseline.
//!
//! The builder validates the whole configuration up front:
//! [`SimulationBuilder::build`] returns [`SimError::InvalidConfig`]
//! instead of panicking mid-run, so drivers can surface bad sweeps as
//! errors.
//!
//! # Example
//!
//! ```
//! use agile_core::PowerPolicy;
//! use dcsim::{Experiment, Scenario, SimulationBuilder};
//! use simcore::SimDuration;
//!
//! let experiment = Experiment::new(Scenario::small_test(7))
//!     .policy(PowerPolicy::reactive_suspend())
//!     .horizon(SimDuration::from_hours(2));
//! let out = SimulationBuilder::new(experiment)
//!     .capture_cluster(true)
//!     .build()?
//!     .run()?;
//! assert!(out.report.energy_kwh() > 0.0);
//! assert!(out.cluster.is_some());
//! # Ok::<(), dcsim::SimError>(())
//! ```

use cluster::Cluster;
use obs::SpanSummary;
use power::DvfsModel;

use crate::engine::DatacenterSim;
use crate::{Experiment, SimError, SimReport};

/// Builder for a validated, ready-to-run [`Simulation`].
///
/// Wraps an [`Experiment`] (the *what*: scenario, policy, horizon,
/// failure model, sinks) with execution options (the *how*: profiling,
/// cluster capture, analytic DVFS mode).
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    experiment: Experiment,
    profiling: bool,
    capture_cluster: bool,
    dvfs: Option<DvfsModel>,
}

impl SimulationBuilder {
    /// Starts a builder around `experiment` with serial execution and no
    /// extra outputs.
    pub fn new(experiment: Experiment) -> Self {
        SimulationBuilder {
            experiment,
            profiling: false,
            capture_cluster: false,
            dvfs: None,
        }
    }

    /// Has no effect: every run is single-threaded (run independent
    /// simulations side by side with `simcore::pool::run_indexed` to use
    /// more cores). Kept only because the frozen `perfbench` benchmark
    /// still calls it; ROADMAP item 2's benchmark change removes those
    /// calls and then this setter.
    pub fn threads(self, _threads: usize) -> Self {
        self
    }

    /// Enables wall-clock span tracing; the span tree comes back in
    /// [`SimOutput::spans`], out-of-band of the bit-deterministic
    /// report. Incompatible with the analytic (Oracle/DVFS) modes.
    pub fn profiling(mut self, enable: bool) -> Self {
        self.profiling = enable;
        self
    }

    /// Returns the final [`Cluster`] in [`SimOutput::cluster`] for
    /// per-host inspection. Incompatible with the analytic (Oracle/DVFS)
    /// modes, which simulate no cluster.
    pub fn capture_cluster(mut self, enable: bool) -> Self {
        self.capture_cluster = enable;
        self
    }

    /// Runs the distributed control plane with `count` concurrent
    /// schedulers — convenience for callers that only hold the builder.
    /// See [`Experiment::schedulers`]. [`build`](Self::build) rejects
    /// `0`, more schedulers than hosts, and any combination with the
    /// analytic (Oracle/DVFS) modes.
    pub fn schedulers(mut self, count: usize) -> Self {
        self.experiment = self.experiment.schedulers(count);
        self
    }

    /// Sets the remote-partition view staleness in control rounds. See
    /// [`Experiment::view_staleness`].
    pub fn view_staleness(mut self, rounds: usize) -> Self {
        self.experiment = self.experiment.view_staleness(rounds);
        self
    }

    /// Sets the plan-to-commit control-loop latency in control rounds.
    /// See [`Experiment::control_latency`].
    pub fn control_latency(mut self, rounds: usize) -> Self {
        self.experiment = self.experiment.control_latency(rounds);
        self
    }

    /// Evaluates the analytic DVFS-only baseline instead of the event
    /// loop: every host stays on and clocks down to the lowest
    /// sufficient frequency. The experiment's policy is ignored.
    pub fn dvfs_baseline(mut self, model: DvfsModel) -> Self {
        self.dvfs = Some(model);
        self
    }

    /// Builds and runs in one step, returning just the report — the
    /// common case for sweeps that want neither the cluster nor the
    /// profile.
    ///
    /// # Errors
    ///
    /// As for [`build`](Self::build) and [`Simulation::run`].
    pub fn run_report(self) -> Result<SimReport, SimError> {
        Ok(self.build()?.run()?.report)
    }

    /// Validates the configuration and constructs the simulation
    /// (including the initial VM placement for engine runs).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for an inconsistent configuration
    /// (a scenario, manager, failure, host power or DVFS-baseline model
    /// that fails its `try_validate`, zero horizon, control interval
    /// longer than the horizon, or cluster capture, profiling or a trace
    /// file requested from an analytic mode);
    /// [`SimError::InitialPlacement`] / [`SimError::TraceIo`] as for the
    /// engine.
    pub fn build(self) -> Result<Simulation, SimError> {
        let invalid = |message: String| SimError::InvalidConfig { message };
        self.experiment.scenario().try_validate()?;
        let horizon = self.experiment.horizon;
        if horizon.as_secs_f64() <= 0.0 {
            return Err(invalid("horizon must be non-zero".to_string()));
        }
        let interval = self.experiment.resolved_interval();
        if interval.as_secs_f64() <= 0.0 {
            return Err(invalid("control interval must be non-zero".to_string()));
        }
        if interval > horizon {
            return Err(invalid(format!(
                "control interval ({interval}) exceeds the horizon ({horizon})"
            )));
        }
        self.experiment
            .resolve_config()
            .try_validate()
            .map_err(|e| invalid(format!("manager config: {e}")))?;
        self.experiment.failures.try_validate()?;
        for (i, spec) in self.experiment.scenario().host_specs().iter().enumerate() {
            let profile = spec.profile();
            profile
                .try_validate()
                .map_err(|e| invalid(format!("host {i} profile {}: {e}", profile.name())))?;
        }
        if let Some(model) = &self.dvfs {
            model
                .try_validate()
                .map_err(|e| invalid(format!("DVFS baseline: {e}")))?;
        }
        let knobs @ (schedulers, _, _) = self.experiment.control_plane_knobs();
        if schedulers == 0 {
            return Err(invalid(
                "control plane needs at least one scheduler".to_string(),
            ));
        }
        let hosts = self.experiment.scenario().host_specs().len();
        if schedulers > hosts {
            return Err(invalid(format!(
                "more schedulers ({schedulers}) than hosts ({hosts})"
            )));
        }

        let analytic = if self.dvfs.is_some() {
            Some("the DVFS baseline")
        } else if self.experiment.is_oracle() {
            Some("the Oracle policy")
        } else {
            None
        };
        if let Some(mode) = analytic {
            if self.capture_cluster {
                return Err(invalid(format!("{mode} simulates no cluster to capture")));
            }
            if self.profiling {
                return Err(invalid(format!("{mode} has no event loop to profile")));
            }
            if self.experiment.trace_path.is_some() {
                return Err(invalid(format!("{mode} has no event loop to trace")));
            }
            if knobs != (1, 0, 0) {
                return Err(invalid(format!("{mode} has no schedulers to distribute")));
            }
            let inner = match self.dvfs {
                Some(model) => SimKind::Dvfs {
                    experiment: self.experiment,
                    model,
                },
                None => SimKind::Oracle {
                    experiment: self.experiment,
                },
            };
            return Ok(Simulation { inner });
        }

        let sim = DatacenterSim::new(&self.experiment, self.profiling)?;
        Ok(Simulation {
            inner: SimKind::Engine {
                sim: Box::new(sim),
                capture_cluster: self.capture_cluster,
            },
        })
    }
}

/// A validated simulation, ready to [`run`](Self::run) exactly once.
#[derive(Debug)]
pub struct Simulation {
    inner: SimKind,
}

/// How the run is evaluated: the discrete-event engine or one of the two
/// analytic models.
#[derive(Debug)]
enum SimKind {
    Engine {
        /// Boxed: the engine is much larger than the analytic variants.
        sim: Box<DatacenterSim>,
        capture_cluster: bool,
    },
    Oracle {
        experiment: Experiment,
    },
    Dvfs {
        experiment: Experiment,
        model: DvfsModel,
    },
}

impl Simulation {
    /// Runs to the horizon.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable engine errors (see [`SimError`]); the
    /// analytic modes cannot fail.
    pub fn run(self) -> Result<SimOutput, SimError> {
        match self.inner {
            SimKind::Engine {
                sim,
                capture_cluster,
            } => {
                let (report, cluster, spans) = sim.run_inner()?;
                Ok(SimOutput {
                    report,
                    cluster: capture_cluster.then_some(cluster),
                    spans,
                })
            }
            SimKind::Oracle { experiment } => Ok(SimOutput {
                report: experiment.run_oracle(),
                cluster: None,
                spans: None,
            }),
            SimKind::Dvfs { experiment, model } => Ok(SimOutput {
                report: experiment.dvfs_report(&model),
                cluster: None,
                spans: None,
            }),
        }
    }
}

/// Everything a run can produce. The report is always present; the
/// cluster and span summary appear only when requested on the builder.
#[derive(Debug)]
#[non_exhaustive]
pub struct SimOutput {
    /// The bit-deterministic run report.
    pub report: SimReport,
    /// The final cluster, when built with
    /// [`SimulationBuilder::capture_cluster`].
    pub cluster: Option<Cluster>,
    /// The wall-clock span summary (per-phase attribution down to
    /// `candidate_scan`/`trial`/`undo`; the depth-1 spans are the
    /// engine phases), when built with
    /// [`SimulationBuilder::profiling`].
    pub spans: Option<SpanSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FailureModel, Scenario};
    use agile_core::{ManagerConfig, PowerPolicy, PredictorConfig, RecoveryConfig};
    use power::{HostPowerProfile, PowerCurve};
    use simcore::SimDuration;

    fn experiment(seed: u64) -> Experiment {
        Experiment::new(Scenario::small_test(seed))
            .policy(PowerPolicy::reactive_suspend())
            .horizon(SimDuration::from_hours(2))
    }

    #[test]
    fn default_build_runs_serial_engine() {
        let out = SimulationBuilder::new(experiment(1))
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(out.report.energy_j > 0.0);
        assert!(out.cluster.is_none());
        assert!(out.spans.is_none());
    }

    #[test]
    fn capture_and_profile_are_opt_in() {
        let out = SimulationBuilder::new(experiment(2))
            .capture_cluster(true)
            .profiling(true)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let cluster = out.cluster.expect("requested cluster");
        assert!(cluster.placement().check_invariants());
        assert!(out.spans.is_some());
    }

    #[test]
    fn interval_beyond_horizon_is_rejected() {
        let e = experiment(4).control_interval(SimDuration::from_hours(3));
        let err = SimulationBuilder::new(e).build().unwrap_err();
        assert!(err.to_string().contains("exceeds the horizon"));
    }

    #[test]
    fn invalid_manager_config_is_an_error_not_a_panic() {
        // The default underload threshold (0.65) sits above this target:
        // the builder reports the inconsistency as a value.
        let cfg = ManagerConfig::new(PowerPolicy::reactive_suspend()).with_target_utilization(0.6);
        let e = Experiment::new(Scenario::small_test(5)).manager_config(cfg);
        let err = SimulationBuilder::new(e).build().unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }));
        assert!(err.to_string().contains("must be below"), "{err}");
    }

    #[test]
    fn every_config_type_is_checked_at_build() {
        let (b, mins) = (SimulationBuilder::new, SimDuration::from_mins);
        let mgr = |config: ManagerConfig| b(experiment(12).manager_config(config));
        let cfg = || ManagerConfig::new(PowerPolicy::reactive_suspend());
        let inverted = RecoveryConfig::new().with_backoff(mins(10), mins(2));
        let alpha_0 = PredictorConfig::Ewma { alpha: 0.0 };
        let hangs = FailureModel::new(0.1, 0.0).with_hangs(0.1, 0.5);
        let table = HostPowerProfile::prototype_rack().transitions().clone();
        let hot = HostPowerProfile::new("hot", PowerCurve::linear(100.0, 200.0), 150.0, 5.0, table);
        let hot_hosts = Experiment::new(Scenario::small_test(12).with_host_profile(hot));
        let no_nominal = DvfsModel::new(vec![power::DvfsLevel {
            freq_frac: 0.5,
            dyn_power_scale: 0.4,
        }]);
        let dvfs = b(experiment(12)).dvfs_baseline(no_nominal);
        let donor = Scenario::small_test(12);
        let no_hosts = Scenario::new("empty", Vec::new(), donor.fleet().clone(), mins(5), 12);
        for (builder, expected) in [
            (mgr(cfg().with_recovery(inverted)), "backoff cap below"),
            (mgr(cfg().with_predictor(alpha_0)), "alpha 0 outside"),
            (b(experiment(12).failure_model(hangs)), "hang factor 0.5"),
            (b(hot_hosts), "host 0 profile hot: low-power draw exceeds"),
            (dvfs, "DVFS baseline: top level must be nominal"),
            (b(Experiment::new(no_hosts)), "scenario needs hosts"),
        ] {
            match builder.build() {
                Err(SimError::InvalidConfig { message }) => {
                    assert!(message.contains(expected), "{message} lacks {expected}");
                }
                other => panic!("{expected}: got {other:?}"),
            }
        }
    }

    #[test]
    fn oracle_rejects_cluster_capture() {
        let oracle = Experiment::new(Scenario::small_test(6)).policy(PowerPolicy::oracle());
        let b = |e: &Experiment| SimulationBuilder::new(e.clone());
        let trace = std::env::temp_dir().join("never.jsonl");
        let traced = |e: &Experiment| b(&e.clone().trace_path(&trace));
        let dvfs = traced(&experiment(6)).dvfs_baseline(DvfsModel::typical_2013());
        for (builder, expected) in [
            (b(&oracle).capture_cluster(true), "no cluster to capture"),
            (b(&oracle).profiling(true), "no event loop to profile"),
            (traced(&oracle), "Oracle policy has no event loop to trace"),
            (dvfs, "DVFS baseline has no event loop to trace"),
        ] {
            let err = builder.build().unwrap_err();
            assert!(err.to_string().contains(expected), "{err}");
        }
    }

    #[test]
    fn oracle_runs_analytically() {
        let e = Experiment::new(Scenario::small_test(7))
            .policy(PowerPolicy::oracle())
            .horizon(SimDuration::from_hours(2));
        let out = SimulationBuilder::new(e).build().unwrap().run().unwrap();
        assert_eq!(out.report.policy, "Oracle");
        assert!(out.cluster.is_none());
    }

    #[test]
    fn dvfs_baseline_ignores_policy() {
        let e = experiment(8);
        let out = SimulationBuilder::new(e)
            .dvfs_baseline(power::DvfsModel::typical_2013())
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(out.report.policy, "DVFS-only");
        assert_eq!(out.report.violation_fraction, 0.0);
    }

    #[test]
    fn control_plane_knobs_are_validated() {
        let err = SimulationBuilder::new(experiment(10))
            .schedulers(0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("at least one scheduler"), "{err}");
        // small_test has 4 hosts.
        let err = SimulationBuilder::new(experiment(10))
            .schedulers(5)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("more schedulers"), "{err}");
        // One scheduler per host is the largest plane.
        assert!(SimulationBuilder::new(experiment(10))
            .schedulers(4)
            .build()
            .is_ok());
        let e = Experiment::new(Scenario::small_test(10)).policy(PowerPolicy::oracle());
        // The default single scheduler is no distribution request.
        assert!(SimulationBuilder::new(e.clone())
            .schedulers(1)
            .build()
            .is_ok());
        let err = SimulationBuilder::new(e).schedulers(2).build().unwrap_err();
        assert!(err.to_string().contains("no schedulers"), "{err}");
        let err = SimulationBuilder::new(experiment(10))
            .dvfs_baseline(power::DvfsModel::typical_2013())
            .view_staleness(1)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("no schedulers"), "{err}");
    }

    #[test]
    fn distributed_build_runs() {
        let out = SimulationBuilder::new(experiment(11))
            .schedulers(2)
            .view_staleness(1)
            .control_latency(1)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(out.report.energy_j > 0.0);
        let planned = out.report.metrics.counter("work.commit.planned");
        assert!(planned > 0, "distributed run must have planned actions");
    }
}

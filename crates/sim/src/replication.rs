//! Multi-seed replication: mean ± deviation across independent worlds.
//!
//! Single-seed results can ride on one lucky (or unlucky) demand draw.
//! The replication harness reruns an experiment across seeds and reduces
//! each headline metric to summary statistics, so the recorded tables can
//! state how stable a number is.

use simcore::Welford;

use crate::{SimError, SimReport};

/// Summary statistics of one metric across replications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricStats {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (0 for a single run).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl MetricStats {
    fn from_samples(samples: &[f64]) -> Self {
        let mut w = Welford::new();
        for &x in samples {
            w.push(x);
        }
        MetricStats {
            mean: w.mean(),
            std_dev: w.std_dev(),
            min: w.min().unwrap_or(0.0),
            max: w.max().unwrap_or(0.0),
        }
    }

    /// Renders as `mean ± std`.
    pub fn pm(&self, precision: usize) -> String {
        format!("{:.p$} ± {:.p$}", self.mean, self.std_dev, p = precision)
    }
}

/// Replicated headline metrics of one experiment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationSummary {
    /// Policy label of the replicated runs.
    pub policy: String,
    /// Number of replications.
    pub runs: usize,
    /// Energy in kWh.
    pub energy_kwh: MetricStats,
    /// Unserved demand ratio.
    pub unserved_ratio: MetricStats,
    /// Migrations per hour.
    pub migrations_per_hour: MetricStats,
    /// Power actions per hour.
    pub power_actions_per_hour: MetricStats,
    /// Average hosts in the `On` state.
    pub avg_hosts_on: MetricStats,
}

/// Runs `experiment` once per seed and summarizes the reports.
///
/// # Errors
///
/// Propagates the first failing run.
///
/// # Panics
///
/// Panics if `seeds` is empty or the runs disagree on the policy label
/// (that would mean the closure ignored its seed argument contract).
///
/// # Example
///
/// ```
/// use agile_core::PowerPolicy;
/// use dcsim::{replicate, Experiment, Scenario, SimulationBuilder};
/// use simcore::SimDuration;
///
/// let summary = replicate(&[1, 2, 3], |seed| {
///     SimulationBuilder::new(
///         Experiment::new(Scenario::small_test(seed))
///             .policy(PowerPolicy::reactive_suspend())
///             .horizon(SimDuration::from_hours(2)),
///     )
///     .run_report()
/// })?;
/// assert_eq!(summary.runs, 3);
/// assert!(summary.energy_kwh.mean > 0.0);
/// # Ok::<(), dcsim::SimError>(())
/// ```
pub fn replicate(
    seeds: &[u64],
    experiment: impl Fn(u64) -> Result<SimReport, SimError>,
) -> Result<ReplicationSummary, SimError> {
    assert!(!seeds.is_empty(), "need at least one seed");
    let reports: Vec<SimReport> = seeds
        .iter()
        .map(|&seed| experiment(seed))
        .collect::<Result<_, _>>()?;
    let policy = reports[0].policy.clone();
    assert!(
        reports.iter().all(|r| r.policy == policy),
        "replications ran different policies"
    );
    let collect = |f: fn(&SimReport) -> f64| {
        MetricStats::from_samples(&reports.iter().map(f).collect::<Vec<_>>())
    };
    Ok(ReplicationSummary {
        policy,
        runs: reports.len(),
        energy_kwh: collect(|r| r.energy_kwh()),
        unserved_ratio: collect(|r| r.unserved_ratio),
        migrations_per_hour: collect(|r| r.migrations_per_hour),
        power_actions_per_hour: collect(|r| r.power_actions_per_hour),
        avg_hosts_on: collect(|r| r.avg_hosts_on),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Experiment, Scenario, SimulationBuilder};
    use agile_core::PowerPolicy;
    use simcore::SimDuration;

    fn run(seed: u64) -> Result<SimReport, SimError> {
        SimulationBuilder::new(
            Experiment::new(Scenario::datacenter(4, 16, seed))
                .policy(PowerPolicy::reactive_suspend())
                .horizon(SimDuration::from_hours(4)),
        )
        .run_report()
    }

    #[test]
    fn summarizes_across_seeds() {
        let s = replicate(&[1, 2, 3, 4], run).unwrap();
        assert_eq!(s.runs, 4);
        assert_eq!(s.policy, "PM-Suspend(S3)");
        assert!(s.energy_kwh.mean > 0.0);
        assert!(s.energy_kwh.std_dev > 0.0, "distinct seeds must vary");
        assert!(s.energy_kwh.min <= s.energy_kwh.mean);
        assert!(s.energy_kwh.mean <= s.energy_kwh.max);
    }

    #[test]
    fn single_seed_has_zero_deviation() {
        let s = replicate(&[7], run).unwrap();
        assert_eq!(s.energy_kwh.std_dev, 0.0);
        assert_eq!(s.energy_kwh.min, s.energy_kwh.max);
    }

    #[test]
    fn pm_renders() {
        let m = MetricStats {
            mean: 12.345,
            std_dev: 0.678,
            min: 11.0,
            max: 13.0,
        };
        assert_eq!(m.pm(1), "12.3 ± 0.7");
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn rejects_empty_seeds() {
        let _ = replicate(&[], run);
    }
}

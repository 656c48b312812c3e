//! The correctness gate every simulated day must pass.
//!
//! A managed day fails the gate when the simulator errors, when
//! `check_support::check_report` rejects its report, when the policy
//! ladder Oracle <= managed <= AlwaysOn is broken, or when its report
//! digest differs from the first day of the same process: the simulator
//! is deterministic, so every day of one workload and seed must produce
//! the same report, at any thread count and with tracing on or off.

use check_support::{check_energy_ordering, check_report};
use dcsim::{Scenario, SimReport};

use crate::workload::Workload;

/// Relative slack of the energy-ordering check.
const ORDERING_TOLERANCE: f64 = 1e-3;

/// The untimed reference legs the managed days are judged against.
#[derive(Debug)]
pub struct References {
    /// AlwaysOn on the same world: the savings baseline.
    pub always_on: SimReport,
    /// The analytic Oracle bound on the same world.
    pub oracle: SimReport,
}

impl References {
    /// Runs both reference legs on `scenario`.
    ///
    /// # Errors
    ///
    /// The simulator's error, or a reference report that fails its own
    /// report check.
    pub fn run(workload: &Workload, scenario: &Scenario) -> Result<References, String> {
        let run = |builder: dcsim::SimulationBuilder| {
            builder
                .run_report()
                .map_err(|e| format!("reference leg failed: {e}"))
        };
        let always_on = run(workload.always_on(scenario.clone()))?;
        check_report(scenario, &always_on).map_err(|e| format!("AlwaysOn report: {e}"))?;
        let oracle = run(workload.oracle(scenario.clone()))?;
        Ok(References { always_on, oracle })
    }
}

/// Checks the days of one workload and seed, remembering the first
/// day's digest.
#[derive(Debug, Default)]
pub struct Gate {
    digest: Option<u64>,
}

impl Gate {
    /// A gate that has seen no day yet.
    pub fn new() -> Self {
        Gate::default()
    }

    /// Checks one managed day's report, returning its digest.
    ///
    /// # Errors
    ///
    /// Describes the first check the report fails.
    pub fn check(
        &mut self,
        scenario: &Scenario,
        report: &SimReport,
        references: &Result<References, String>,
    ) -> Result<u64, String> {
        check_report(scenario, report)?;
        let refs = references.as_ref().map_err(Clone::clone)?;
        check_energy_ordering(&refs.oracle, report, &refs.always_on, ORDERING_TOLERANCE)?;
        let digest = digest(report);
        match self.digest {
            None => self.digest = Some(digest),
            Some(first) if first != digest => {
                return Err(format!(
                    "report digest {digest:016x} differs from the first day's {first:016x}"
                ))
            }
            Some(_) => {}
        }
        Ok(digest)
    }
}

/// FNV-1a over the report's compact JSON: every field of the report,
/// including the `work.*` counters and the power series.
fn digest(report: &SimReport) -> u64 {
    report
        .to_json()
        .to_string_compact()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

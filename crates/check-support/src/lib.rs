//! Domain generators and the invariant catalog for property-testing the
//! simulator.
//!
//! The [`check`] crate knows nothing about datacenters; this layer does.
//! [`generators`] produces arbitrary (but small and fast) worlds —
//! scenarios, policies, failure models — as shrink-friendly spec
//! values. [`invariants`] is the catalog of properties every finished
//! run must satisfy: energy and capacity conservation, event-log time
//! ordering, placement sanity, JSON round-tripping, and the Oracle ≤
//! managed ≤ always-on energy ladder.
//!
//! The differential-verification suite (`tests/differential.rs` at the
//! workspace root) combines both: generated scenarios run through the
//! execution paths the codebase promises are equivalent, asserting
//! bit-identical reports and checking the catalog after every run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generators;
pub mod invariants;

use dcsim::{Experiment, SimError, SimReport, SimulationBuilder};

/// Runs a configured experiment through the [`SimulationBuilder`] and
/// returns its report.
pub fn run_experiment(experiment: Experiment) -> Result<SimReport, SimError> {
    SimulationBuilder::new(experiment).run_report()
}

pub use generators::{
    default_schedulers, experiment_spec, failure_spec, ladder_policy, policy, scenario_spec,
    scheduler_count, workload_kind, ExperimentSpec, FailureSpec, ScenarioSpec, WorkloadKind,
};
pub use invariants::{
    check_cluster, check_commit_ledger, check_energy_breakdown, check_energy_ordering,
    check_event_log, check_json_round_trip, check_ladder_monotonic, check_no_vm_double_placed,
    check_report, check_work_counters,
};
